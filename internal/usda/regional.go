package usda

import "sync"

// Regional returns an FAO-INFOODS-style supplementary composition table
// covering region-specific ingredients absent from the US-centric SR
// seed. The paper's §III names this exact gap ("'garam masala' — a spice
// used in Indian dishes is not an ingredient present in the dataset") and
// its remedy ("Incorporation of other data as mentioned in Food and
// Agricultural Organisation of the United Nations would help in improving
// the results"); WithRegional is that incorporation.
//
// NDB numbers live in a 90000+ range so they can never collide with SR
// food groups. Descriptions follow the same comma-separated
// decreasing-importance grammar, so the matcher needs no changes.
func Regional() *DB { return regionalOnce() }

var regionalOnce = sync.OnceValue(func() *DB {
	return MustNewDB(regionalFoods())
})

// WithRegional returns the seed table merged with the regional table —
// the multi-database configuration of the FAO experiment.
func WithRegional() *DB { return withRegionalOnce() }

var withRegionalOnce = sync.OnceValue(func() *DB {
	base := Seed().Foods()
	reg := Regional().Foods()
	all := make([]Food, 0, len(base)+len(reg))
	all = append(all, base...)
	all = append(all, reg...)
	return MustNewDB(all)
})

// IsRegionalNDB reports whether an NDB number belongs to the regional
// table's range.
func IsRegionalNDB(ndb int) bool { return ndb >= 90000 && ndb < 91000 }

// regionalFoods is the regional table's rows. The corpus generator
// takes its regional ingredients' gold data from this table
// (usda.Regional), so nothing here is written down twice.
func regionalFoods() []Food {
	return []Food{
		// Indian subcontinent
		fd(90001, "Spice blend, garam masala", p(379, 14.29, 15.10, 50.50, 24.6, 2.80, 525, 29.7, 62, 11.9, 0),
			w(1, 1, "tsp", 2.0),
			w(2, 1, "tbsp", 6.3)),
		fd(90002, "Cheese, paneer, fresh", p(321, 18.86, 26.90, 1.20, 0, 1.20, 480, 0.16, 22, 0, 90),
			w(1, 1, "cup, cubed", 132.0),
			w(2, 1, "oz", 28.35),
			w(3, 1, "slice", 30.0)),
		fd(90003, "Curry leaves, fresh", p(108, 6.10, 1.00, 18.70, 6.4, 0, 830, 0.93, 18, 4.0, 0),
			w(1, 1, "leaf", 0.5),
			w(2, 1, "sprig", 5.0),
			w(3, 1, "tbsp", 2.0)),
		fd(90004, "Spices, asafoetida (hing), powder", p(297, 4.00, 1.10, 67.80, 4.1, 0, 690, 39.4, 55, 0, 0),
			w(1, 1, "tsp", 3.0),
			w(2, 1, "pinch", 0.3)),
		fd(90005, "Sugar, jaggery (gur), unrefined cane", p(383, 0.40, 0.10, 98.00, 0, 84.00, 85, 11.0, 30, 0, 0),
			w(1, 1, "tbsp", 15.0),
			w(2, 1, "cup, grated", 145.0),
			w(3, 1, "piece", 25.0)),
		fd(90006, "Tamarind paste, concentrate", p(239, 2.80, 0.60, 62.50, 5.1, 38.80, 74, 2.80, 28, 3.5, 0),
			w(1, 1, "tbsp", 16.0),
			w(2, 1, "tsp", 5.3)),
		fd(90007, "Ghee, clarified butter", p(876, 0.28, 99.48, 0, 0, 0, 4, 0, 2, 0, 256),
			w(1, 1, "tbsp", 12.8),
			w(2, 1, "tsp", 4.3),
			w(3, 1, "cup", 205.0)),
		fd(90008, "Flour, chickpea (besan)", p(387, 22.39, 6.69, 57.82, 10.8, 10.85, 45, 4.86, 64, 0, 0),
			w(1, 1, "cup", 92.0),
			w(2, 1, "tbsp", 6.0)),
		fd(90009, "Spice blend, chaat masala", p(310, 10.10, 9.50, 46.20, 18.3, 3.10, 410, 21.0, 3100, 5.0, 0),
			w(1, 1, "tsp", 2.2)),
		fd(90010, "Lentils, split pigeon peas (toor dal), raw", p(343, 21.70, 1.49, 62.78, 15.0, 0, 130, 5.23, 17, 0, 0),
			w(1, 1, "cup", 205.0)),

		// East and Southeast Asia
		fd(90011, "Fish sauce, fermented (nam pla)", p(35, 5.06, 0.01, 3.64, 0, 3.64, 43, 0.78, 7851, 0.5, 0),
			w(1, 1, "tbsp", 18.0),
			w(2, 1, "tsp", 6.0)),
		fd(90012, "Chili paste, fermented (gochujang)", p(190, 4.50, 1.80, 41.00, 4.0, 22.00, 40, 1.50, 2480, 2.0, 0),
			w(1, 1, "tbsp", 19.0),
			w(2, 1, "tsp", 6.3)),
		fd(90013, "Sugar, palm, block", p(377, 0.30, 0.20, 94.00, 0, 78.00, 60, 2.60, 35, 0, 0),
			w(1, 1, "tbsp", 14.0),
			w(2, 1, "piece", 30.0),
			w(3, 1, "cup, grated", 140.0)),
		fd(90014, "Lime leaves, kaffir (makrut), fresh", p(80, 3.00, 0.80, 16.00, 9.0, 0, 440, 3.00, 6, 30.0, 0),
			w(1, 1, "leaf", 0.6),
			w(2, 5, "leaves", 3.0)),
		fd(90015, "Rice wine, mirin, sweet cooking", p(241, 0.20, 0, 42.00, 0, 40.00, 3, 0.10, 180, 0, 0),
			w(1, 1, "tbsp", 18.0),
			w(2, 1, "cup", 288.0)),
		fd(90016, "Soybean paste, fermented, doenjang", p(197, 13.60, 5.50, 24.00, 6.1, 6.00, 122, 2.60, 3600, 0, 0),
			w(1, 1, "tbsp", 17.0)),
		fd(90017, "Seaweed, nori, dried sheets", p(188, 30.70, 1.70, 44.40, 31.0, 2.60, 280, 11.9, 480, 42.0, 0),
			w(1, 1, "sheet", 2.6),
			w(2, 1, "cup, shredded", 8.0)),
		fd(90018, "Kimchi, cabbage, fermented", p(15, 1.10, 0.50, 2.40, 1.6, 1.06, 33, 0.51, 498, 4.4, 0),
			w(1, 1, "cup", 150.0),
			w(2, 0.5, "cup", 75.0)),
		fd(90019, "Dashi stock, prepared", p(2, 0.30, 0, 0.20, 0, 0, 2, 0.10, 140, 0, 0),
			w(1, 1, "cup", 240.0),
			w(2, 1, "quart", 960.0)),
		fd(90020, "Sambal oelek, ground chili paste", p(100, 2.00, 1.00, 20.00, 4.0, 10.00, 30, 1.60, 2100, 30.0, 0),
			w(1, 1, "tbsp", 15.0),
			w(2, 1, "tsp", 5.0)),

		// Middle East and Africa
		fd(90021, "Spice blend, za'atar", p(300, 11.00, 10.00, 42.00, 21.0, 1.00, 900, 22.0, 1200, 10.0, 0),
			w(1, 1, "tbsp", 7.0),
			w(2, 1, "tsp", 2.3)),
		fd(90022, "Spices, sumac, ground", p(324, 3.50, 12.00, 63.00, 22.0, 2.00, 290, 8.0, 15, 4.0, 0),
			w(1, 1, "tbsp", 8.0),
			w(2, 1, "tsp", 2.7)),
		fd(90023, "Chili paste, harissa", p(130, 3.50, 6.00, 16.00, 6.0, 7.00, 60, 2.80, 1300, 12.0, 0),
			w(1, 1, "tbsp", 16.0),
			w(2, 1, "tsp", 5.3)),
		fd(90024, "Flour, teff, whole-grain", p(366, 13.30, 2.38, 73.13, 12.2, 1.84, 180, 7.63, 12, 0, 0),
			w(1, 1, "cup", 121.0)),
		fd(90025, "Butter, spiced, clarified (niter kibbeh)", p(870, 0.30, 98.50, 0.30, 0, 0, 5, 0.05, 4, 0, 250),
			w(1, 1, "tbsp", 13.0),
			w(2, 1, "tsp", 4.4)),
		fd(90026, "Spice blend, berbere", p(320, 12.00, 10.00, 50.00, 22.0, 6.00, 350, 18.0, 1500, 8.0, 0),
			w(1, 1, "tbsp", 7.5),
			w(2, 1, "tsp", 2.5)),
		fd(90027, "Couscous, pearl (ptitim), dry", p(376, 12.50, 0.80, 77.00, 5.0, 0.50, 25, 1.20, 12, 0, 0),
			w(1, 1, "cup", 170.0)),
		fd(90028, "Molokhia (jute mallow) leaves, fresh", p(34, 4.65, 0.25, 5.80, 3.0, 0.50, 208, 4.76, 8, 37.0, 0),
			w(1, 1, "cup, chopped", 28.0),
			w(2, 1, "bunch", 150.0)),

		// Latin America and Caribbean
		fd(90029, "Plantains, green, raw", p(122, 1.30, 0.37, 31.89, 2.3, 15.00, 3, 0.60, 4, 18.4, 0),
			w(1, 1, "medium", 179.0),
			w(2, 1, "cup, sliced", 148.0)),
		fd(90030, "Cassava (yuca), raw", p(160, 1.36, 0.28, 38.06, 1.8, 1.70, 16, 0.27, 14, 20.6, 0),
			w(1, 1, "cup, cubed", 206.0),
			w(2, 1, "root", 408.0)),
		fd(90031, "Peppers, aji amarillo, fresh", p(55, 1.90, 0.70, 11.70, 3.6, 6.00, 18, 1.20, 8, 95.0, 0),
			w(1, 1, "medium", 45.0),
			w(2, 1, "tbsp, paste", 16.0)),
		fd(90032, "Masa harina, corn flour, nixtamalized", p(363, 8.50, 3.86, 76.00, 6.4, 1.60, 141, 7.00, 5, 0, 0),
			w(1, 1, "cup", 114.0)),
		fd(90033, "Queso fresco, Mexican fresh cheese", p(299, 18.09, 23.82, 2.98, 0, 2.40, 566, 0.17, 751, 0, 69),
			w(1, 1, "cup, crumbled", 122.0),
			w(2, 1, "oz", 28.35)),
		fd(90034, "Epazote, fresh", p(32, 0.33, 0.52, 7.44, 3.8, 0, 275, 1.88, 43, 3.6, 0),
			w(1, 1, "tbsp", 3.0),
			w(2, 1, "sprig", 2.0)),
		fd(90035, "Achiote (annatto) paste", p(285, 4.00, 9.00, 45.00, 10.0, 5.00, 120, 5.00, 2200, 2.0, 0),
			w(1, 1, "tbsp", 17.0)),
	}
}
